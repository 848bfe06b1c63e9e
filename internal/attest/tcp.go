package attest

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"pufatt/internal/telemetry"
)

// This file carries the protocol over a real byte stream (net.Conn), for
// the remote-attestation example and the cross-process tests.
//
// Timing note: the prover's clock is *simulated* (cycle-accurate MCU), so a
// wall-clock measurement at the verifier would mix simulation-host speed
// into the security decision. The transport therefore conveys the prover's
// simulated compute time in a trailer frame, and the verifier combines it
// with the Link model. The adversary implementations in package attacks
// report their times from the same simulator that constrains their
// computation, so the measurement is exactly as trustworthy as a wall clock
// over a real device — it is produced by the physics model, not chosen by
// the adversary's code.
//
// The trailer is nonetheless adversary-influenced wire input and is
// validated like any other frame: it travels CRC-protected, and its value
// must be a finite, non-negative float. Without that check a hostile
// prover could ship NaN — which compares false against every bound, so
// `elapsed > δ` would never trigger — and bypass the timing decision
// entirely.

// ErrBadTime reports a compute-time trailer whose value is NaN, infinite,
// or negative — adversarial or mangled input that must not reach the
// verifier's timing comparison.
var ErrBadTime = errors.New("attest: invalid compute-time trailer")

// Serve answers attestation challenges on the stream until EOF. Each
// exchange is: challenge frame in, response frame + time trailer out.
func Serve(conn io.ReadWriter, agent ProverAgent) error {
	return serveExchanges(conn, agent, 0)
}

// serveExchanges is the prover's exchange loop, shared by Serve and
// Server: read a challenge, answer it inside an adopted span, write the
// response and the compute-time trailer — until clean EOF (nil) or the
// first fault. A positive timeout re-arms a net.Conn's deadline before
// each exchange.
func serveExchanges(conn io.ReadWriter, agent ProverAgent, timeout time.Duration) error {
	for {
		if nc, ok := conn.(net.Conn); ok && timeout > 0 {
			_ = nc.SetDeadline(time.Now().Add(timeout))
		}
		ch, tc, err := ReadChallengeTraced(conn)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("attest: serve: %w", err)
		}
		resp, compute, err := respondTraced(agent, ch, tc)
		if err != nil {
			return fmt.Errorf("attest: serve respond: %w", err)
		}
		if err := WriteResponse(conn, resp); err != nil {
			return err
		}
		if err := writeTime(conn, compute); err != nil {
			return err
		}
	}
}

// respondTraced runs the prover's computation inside a span adopted into
// the verifier's trace (when the challenge frame carried one), so both
// processes' /debug/traces rings show the same trace ID for the session. A
// challenge without a context (a v1 peer, or a mangled extension) gets a
// fresh local trace instead.
func respondTraced(agent ProverAgent, ch Challenge, tc telemetry.TraceContext) (Response, float64, error) {
	sp := tel.Tracer.StartSpanInTrace("attest.prove", tc)
	defer sp.Finish()
	sp.SetAttr("session", strconv.FormatUint(ch.Session, 10))
	resp, compute, err := agent.Respond(ch)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return resp, compute, err
	}
	sp.SetAttr("compute_seconds", strconv.FormatFloat(compute, 'g', -1, 64))
	return resp, compute, nil
}

// ServeContext is Serve bound to a context: when ctx is cancelled or its
// deadline passes, the connection deadline fires and Serve returns.
func ServeContext(ctx context.Context, conn net.Conn, agent ProverAgent) error {
	stop := guardConn(ctx, conn)
	defer stop()
	err := Serve(conn, agent)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// RequestContext performs one attestation with a context governing the
// exchange: if conn is a net.Conn, the context's deadline is applied to it
// and cancellation aborts in-flight reads; a trace parent installed with
// WithTraceParent is adopted. A session that completes yields a verdict;
// every other failure mode except an exhausted seed budget is a transport
// fault.
func RequestContext(ctx context.Context, conn io.ReadWriter, v *Verifier, link Link) (Result, error) {
	parent, _ := TraceParent(ctx)
	res, _, err := tel.session(parent, v, link, overStream(ctx, conn), 0)
	return res, err
}

// RequestWithRetry attests with the given retry policy, dialing a fresh
// connection per attempt (a faulted stream cannot be trusted to be in frame
// sync, so retries never reuse it). Only transport faults consume the
// budget; a verdict — accepted or rejected — is returned on the attempt
// that produced it and is never retried. It reports the verdict, the number
// of attempts, and the terminal error if the budget was exhausted.
func RequestWithRetry(ctx context.Context, dial func() (net.Conn, error), v *Verifier, link Link, policy RetryPolicy) (Result, int, error) {
	return tel.retry(ctx, v, link, policy, func(attemptCtx context.Context) (exchange, func(), error) {
		conn, err := dial()
		if err != nil {
			return exchange{}, nil, Transport(err)
		}
		return overStream(attemptCtx, conn), func() { conn.Close() }, nil
	})
}

// overStream is the exchange over a byte stream. The challenge frame
// carries the session span's context, so the remote prover's span lands in
// the same trace.
func overStream(ctx context.Context, conn io.ReadWriter) exchange {
	return exchange{span: "attest.session.tcp", step: func(ch Challenge, tc telemetry.TraceContext) (Response, float64, float64, error) {
		if nc, ok := conn.(net.Conn); ok {
			stop := guardConn(ctx, nc)
			defer stop()
		}
		if err := WriteChallengeTraced(conn, ch, tc); err != nil {
			return Response{}, 0, 0, ctxErr(ctx, err)
		}
		resp, err := ReadResponse(conn)
		if err != nil {
			return Response{}, 0, 0, ctxErr(ctx, err)
		}
		if resp.Session != ch.Session {
			// A well-formed response for a *different* session is a stream
			// desync (a duplicated or replayed frame still in flight), not a
			// prover verdict: classify it as transport so the retry path
			// redials onto a clean stream.
			return Response{}, 0, 0, Transport(fmt.Errorf("%w: response for session %d, want %d",
				ErrStaleFrame, resp.Session, ch.Session))
		}
		compute, err := readTime(conn)
		if err != nil {
			return Response{}, 0, 0, ctxErr(ctx, err)
		}
		// A jitter-injecting conn delivered frames intact but late: the
		// wall clock saw that latency but the timing decision is modelled
		// (see the timing note above), so it reports the added seconds.
		var injected float64
		if j, ok := conn.(interface{ InjectedRTTSeconds() float64 }); ok {
			injected = j.InjectedRTTSeconds()
		}
		return resp, compute, injected, nil
	}}
}

// ctxErr prefers the context's error over the I/O error it induced.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ended(ctx); cerr != nil {
		return cerr
	}
	return err
}

// guardConn binds a connection to a context: it applies the context
// deadline and, on cancellation, forces in-flight I/O to fail by expiring
// the connection deadline. The returned stop function releases the watcher
// and does not return until it has exited (it does not close the
// connection).
//
// Two lifecycle rules keep the watcher honest. A context that is already
// cancelled at entry expires the deadline synchronously and spawns
// nothing — the caller's very first read must fail, not race a goroutine
// wake-up. And stop() joins the watcher before returning: without the
// join, a cancellation racing stop() could fire SetDeadline *after* the
// session ended and the caller had reset deadlines for the next exchange,
// poisoning a healthy connection — and every guarded session would leak a
// goroutine for as long as its context stayed live.
func guardConn(ctx context.Context, conn net.Conn) (stop func()) {
	if d, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(d)
	}
	if ctx.Done() == nil {
		return func() {}
	}
	if ctx.Err() != nil {
		_ = conn.SetDeadline(time.Unix(1, 0)) // long past: abort I/O now
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(time.Unix(1, 0)) // long past: abort I/O now
		case <-done:
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// Server runs a prover service over TCP. Unlike the bare ListenAndServe
// helper it predates, it surfaces accept and per-connection faults through
// OnError instead of discarding them, applies a per-exchange I/O deadline,
// and shuts down deterministically: Close stops the listener, unblocks
// every in-flight connection, and waits for all handlers to drain before
// returning.
type Server struct {
	// Agent answers the challenges.
	Agent ProverAgent
	// Timeout bounds each connection's I/O between exchanges (0 = none).
	Timeout time.Duration
	// OnError observes accept and per-connection serve faults (it is never
	// called for clean EOF or for the server's own shutdown). It may be
	// called concurrently; nil discards.
	OnError func(error)
	// DrainTimeout bounds how long Close waits for in-flight handlers to
	// drain after the listener and every tracked connection have been
	// closed. Zero preserves the historical behaviour: wait forever. With a
	// bound, an agent stuck mid-Respond (closing the conn only unblocks
	// I/O, not computation) cannot wedge shutdown: Close returns a
	// *DrainError naming how many handlers were abandoned.
	DrainTimeout time.Duration

	mu         sync.Mutex
	ln         net.Listener
	conns      map[net.Conn]struct{}
	wg         sync.WaitGroup
	closed     bool
	adminClose func() error

	// agentMu serialises Agent.Respond across connections. The agent is one
	// physical device — a stateful memory image and PUF port that answer one
	// challenge at a time — but each connection is served on its own
	// goroutine, so two clients (or one client whose duplicated frame left a
	// second challenge in flight) would otherwise run Respond concurrently
	// over shared device state.
	agentMu sync.Mutex
}

// Start listens on the TCP address and begins serving in the background.
func (s *Server) Start(addr string) (net.Addr, error) {
	if s.Agent == nil {
		return nil, errors.New("attest: Server without Agent")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, net.ErrClosed
	}
	s.ln = ln
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !s.isClosed() {
				s.report(fmt.Errorf("attest: accept: %w", err))
			}
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// serveConn runs the exchange loop with the per-exchange deadline,
// answering through the serialised agent.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if err := serveExchanges(conn, serialAgent{&s.agentMu, s.Agent}, s.Timeout); err != nil && !s.isClosed() {
		s.report(err)
	}
}

// serialAgent runs an agent's Respond under a lock shared by every
// connection of one Server.
type serialAgent struct {
	mu    *sync.Mutex
	agent ProverAgent
}

func (a serialAgent) Respond(ch Challenge) (Response, float64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.agent.Respond(ch)
}

// DrainError reports a shutdown that hit its drain deadline: the listener
// and every connection are closed, but some handler goroutines (an agent
// wedged mid-Respond, typically) had not exited when the timeout expired.
type DrainError struct {
	Timeout time.Duration
	// Handlers is the number of connections still tracked when the
	// deadline expired — a lower bound on the goroutines abandoned.
	Handlers int
}

func (e *DrainError) Error() string {
	return fmt.Sprintf("attest: server close: %d handler(s) still draining after %v", e.Handlers, e.Timeout)
}

// Close shuts the server down deterministically: no new connections are
// accepted, in-flight connections are unblocked and drained, and Close
// returns only after every handler goroutine has exited — or, when a
// DrainTimeout is set, after that bound, reporting a *DrainError for the
// handlers it had to abandon. Close is idempotent; a second call waits out
// the same drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.drain()
	}
	s.closed = true
	ln := s.ln
	adminClose := s.adminClose
	var open []net.Conn
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	if adminClose != nil {
		_ = adminClose()
	}
	for _, c := range open {
		_ = c.Close()
	}
	if derr := s.drain(); derr != nil && err == nil {
		err = derr
	}
	return err
}

// drain waits for the handler goroutines, bounded by DrainTimeout when one
// is set.
func (s *Server) drain() error {
	if s.DrainTimeout <= 0 {
		s.wg.Wait()
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			// Every handler has untracked its connection; what remains is
			// goroutine teardown. One more (unbounded, but now certain to be
			// brief) wait beats reporting a phantom leak.
			s.wg.Wait()
			return nil
		}
		return &DrainError{Timeout: s.DrainTimeout, Handlers: n}
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) report(err error) {
	if s.OnError != nil {
		s.OnError(err)
	}
}

// ListenAndServe runs a prover service on the TCP address until the
// returned close function is called; each connection is served on its own
// goroutine. It is the fire-and-forget form of Server (errors discarded);
// services that need fault visibility or timeouts should use Server.
func ListenAndServe(addr string, agent ProverAgent) (net.Addr, func() error, error) {
	srv := &Server{Agent: agent}
	a, err := srv.Start(addr)
	if err != nil {
		return nil, nil, err
	}
	return a, srv.Close, nil
}

// writeTime emits the compute-time trailer frame. The value is validated on
// the way out too: an honest simulator never produces a non-finite time, so
// failing fast here beats a confusing rejection at the peer.
func writeTime(w io.Writer, seconds float64) error {
	if err := validTime(seconds); err != nil {
		return err
	}
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], math.Float64bits(seconds))
	return writeFrame(w, frameTime, body[:])
}

// readTime decodes and validates the compute-time trailer. Any float64 bit
// pattern can arrive off the wire; only finite, non-negative values may
// reach the timing decision.
func readTime(r io.Reader) (float64, error) {
	body, err := readFrame(r, frameTime)
	if err != nil {
		return 0, err
	}
	if len(body) != 8 {
		tel.FramesRejected.With("time").Inc()
		return 0, fmt.Errorf("%w: trailer of %d bytes", ErrBadTime, len(body))
	}
	seconds := math.Float64frombits(binary.LittleEndian.Uint64(body))
	if err := validTime(seconds); err != nil {
		tel.FramesRejected.With("time").Inc()
		return 0, err
	}
	return seconds, nil
}

// validTime rejects NaN, infinite, and negative compute times.
func validTime(seconds float64) error {
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 {
		return fmt.Errorf("%w: %v", ErrBadTime, seconds)
	}
	return nil
}
