package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"
)

// NewHandler builds the observability mux:
//
//	/metrics — Prometheus text exposition (version 0.0.4)
//	/healthz — readiness: "ok\n" once the run has reached its first
//	           control barrier, 503 "starting\n" before
//	/state   — full JSON state snapshot, plus the aggregated timeline
//	           when a Rolling store is supplied (nil is fine)
func NewHandler(m *Metrics, r *Rolling) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//cloudmedia:allow noloss -- HTTP response write; a disconnected scraper is not actionable here
		_ = m.WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body := "ok\n"
		if !m.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			body = "starting\n"
		}
		//cloudmedia:allow noloss -- HTTP response write; a disconnected client is not actionable here
		_, _ = w.Write([]byte(body))
	})
	mux.HandleFunc("/state", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		doc := struct {
			State
			Timeline []Bin `json:"timeline,omitempty"`
		}{State: m.State()}
		if r != nil {
			doc.Timeline = r.Timeline()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//cloudmedia:allow noloss -- HTTP response write; a disconnected client is not actionable here
		_ = enc.Encode(doc)
	})
	return mux
}

// HTTPServer runs the observability endpoint on its own goroutine with a
// graceful shutdown. It accepts either an address to listen on or an
// existing listener (tests pass a ":0" listener to get a free port).
type HTTPServer struct {
	srv *http.Server
	ln  net.Listener

	mu   sync.Mutex
	done chan struct{}
	err  error
}

// NewHTTPServer wraps handler in a server for the given listener.
func NewHTTPServer(ln net.Listener, handler http.Handler) *HTTPServer {
	return &HTTPServer{
		srv: &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
}

// ListenHTTP opens addr (e.g. ":9090", "127.0.0.1:0") and returns a
// server for it.
func ListenHTTP(addr string, handler http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewHTTPServer(ln, handler), nil
}

// Addr returns the listener's address (useful after ":0").
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Start begins serving on the listener. Idempotent.
func (s *HTTPServer) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done != nil {
		return
	}
	s.done = make(chan struct{})
	done := s.done
	go func() {
		err := s.srv.Serve(s.ln)
		if err != nil && err != http.ErrServerClosed {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
		close(done)
	}()
}

// Shutdown drains in-flight requests and stops the server, returning any
// serve error. Safe to call without Start (closes the listener).
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if done == nil {
		return s.ln.Close()
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	<-done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
