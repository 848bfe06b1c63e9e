package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// The admin surface's shared plumbing. Every JSON body the admin routes
// serve — attest.AdminMux, cluster.AdminMux, Federator.Mux — and every
// flight-dump line is encoding/json of a declared value: the record types
// fix their field names in MarshalJSON methods or struct tags, and nothing
// writes JSON text by hand.

// ContentJSON is the Content-Type of every JSON admin route.
const ContentJSON = "application/json; charset=utf-8"

// GetOnly wraps an admin handler: GET and HEAD pass with the given
// Content-Type set up front; every other method is 405 with an Allow
// header. The admin surface is read-only by construction — a mutating verb
// reaching it is a client bug worth a loud, typed answer.
func GetOnly(contentType string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", contentType)
		fn(w, r)
	}
}

// Serve serves handler over HTTP on the TCP address (":0" picks a free
// port) and returns the bound address plus a close function that stops the
// listener and aborts in-flight requests. The close function closes the
// listener itself too: http.Server.Close only reaches a listener its Serve
// goroutine has already registered, so a close that wins the race with
// that goroutine would otherwise leave the port accepting.
func Serve(addr string, handler http.Handler) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }() // returns once closed; nothing to act on
	closeFn := func() error {
		defer ln.Close() // srv.Close already closed it if Serve had registered it
		return srv.Close()
	}
	return ln.Addr(), closeFn, nil
}

// Every calls fn every interval (which must be positive) on a background
// goroutine until the returned stop function is called. stop is idempotent
// and returns only after the goroutine has exited, so no call of fn runs
// once stop has returned.
func Every(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// WriteJSON encodes v as one line of JSON. Strings keep '<', '>' and '&'
// as written: the bodies are read by operators and tools, not embedded in
// HTML.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// marshal is json.Marshal with WriteJSON's escaping, for the MarshalJSON
// methods of the record types.
func marshal(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := WriteJSON(&b, v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

// jsonFloat is a float64 that encodes NaN and ±Inf — an empty histogram's
// quantiles, a burn rate before any window held data — as null, which
// JSON has no number for.
type jsonFloat float64

// MarshalJSON renders the value as a JSON number, or null when it is not
// finite.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// unixNs is t in unix nanoseconds, or nil for the zero time, so an
// omitempty field drops a timestamp that was never set.
func unixNs(t time.Time) *int64 {
	if t.IsZero() {
		return nil
	}
	ns := t.UnixNano()
	return &ns
}
