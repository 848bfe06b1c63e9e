package telemetry

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FileRing bounds a directory of on-disk evidence — flight-recorder dumps,
// profile captures — named <prefix><seq>-<rest><suffix>, where one
// sequence number groups every file of one capture. The sequence continues
// past the highest one already in the directory, so the evidence of a
// restarted process is never the oldest and never overwrites an earlier
// run's files; only the newest Keep captures survive each write. Files
// outside the name pattern are never touched.
//
// One FileRing per evidence kind is shared process-wide: two writers
// pointed at one directory draw from one sequence and never collide on a
// filename.
type FileRing struct {
	prefix, suffix string
	keep           int

	mu  sync.Mutex
	seq uint64
}

// NewFileRing returns a ring over files named <prefix><seq>-*<suffix>
// keeping the newest keep captures.
func NewFileRing(prefix, suffix string, keep int) *FileRing {
	return &FileRing{prefix: prefix, suffix: suffix, keep: keep}
}

// FileCapture is the files of one sequence number in a ring directory.
type FileCapture struct {
	Seq   uint64
	Paths []string
}

// List returns dir's captures, oldest (lowest sequence) first.
func (r *FileRing) List(dir string) ([]FileCapture, error) {
	entries, err := os.ReadDir(dir)
	bySeq := make(map[uint64]*FileCapture)
	var out []FileCapture
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), r.prefix)
		num, _, cut := strings.Cut(rest, "-")
		if !ok || !cut || !strings.HasSuffix(rest, r.suffix) {
			continue
		}
		seq, perr := strconv.ParseUint(num, 10, 64)
		if perr != nil {
			continue
		}
		if bySeq[seq] == nil {
			bySeq[seq] = &FileCapture{Seq: seq}
		}
		bySeq[seq].Paths = append(bySeq[seq].Paths, filepath.Join(dir, e.Name()))
	}
	for _, c := range bySeq {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, err
}

// Write draws the next sequence number in dir, calls write with it to
// create that capture's files, and then deletes the oldest captures beyond
// the newest keep, the new one included. Writes through one ring are
// serialised. The error joins write's own with any listing or pruning
// failure.
func (r *FileRing) Write(dir string, write func(seq uint64) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, lerr := r.List(dir)
	if n := len(old); n > 0 && old[n-1].Seq > r.seq {
		r.seq = old[n-1].Seq
	}
	r.seq++
	werr := write(r.seq)
	for _, c := range old[:max(0, len(old)+1-r.keep)] {
		for _, p := range c.Paths {
			if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && lerr == nil {
				lerr = err
			}
		}
	}
	return errors.Join(werr, lerr)
}
