package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"
)

// proxyStats counts CAS traffic as it crosses the loopback proxy.
// Byte counts are wire bytes (bodies may be gzip-encoded).
type proxyStats struct {
	Gets, Heads, Puts         int64
	GetHits, GetMisses        int64 // GET answered 200 / 404
	HeadMisses                int64 // HEAD answered 404
	PutsCreated, PutsOK       int64 // PUT answered 201 / 200 (duplicate)
	Status503                 int64
	RequestNanos              int64 // summed request latency
	BytesFetched, BytesStored int64
}

func (p proxyStats) sub(q proxyStats) proxyStats {
	return proxyStats{
		Gets: p.Gets - q.Gets, Heads: p.Heads - q.Heads, Puts: p.Puts - q.Puts,
		GetHits: p.GetHits - q.GetHits, GetMisses: p.GetMisses - q.GetMisses,
		HeadMisses:  p.HeadMisses - q.HeadMisses,
		PutsCreated: p.PutsCreated - q.PutsCreated, PutsOK: p.PutsOK - q.PutsOK,
		Status503:    p.Status503 - q.Status503,
		RequestNanos: p.RequestNanos - q.RequestNanos,
		BytesFetched: p.BytesFetched - q.BytesFetched, BytesStored: p.BytesStored - q.BytesStored,
	}
}

// proxy is a counting reverse proxy in front of cmod, used by traced
// runs so CAS requests are counted outside both the client and the
// daemon.
type proxy struct {
	url  string
	srv  *http.Server
	rp   *httputil.ReverseProxy
	done chan struct{}

	mu sync.Mutex
	st proxyStats
}

func startProxy(target string) (*proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{
		url:  "http://" + ln.Addr().String(),
		rp:   httputil.NewSingleHostReverseProxy(u),
		done: make(chan struct{}),
	}
	p.rp.Transport = &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 8}
	p.srv = &http.Server{Handler: http.HandlerFunc(p.serve)}
	go func() {
		defer close(p.done)
		_ = p.srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return p, nil
}

func (p *proxy) serve(w http.ResponseWriter, r *http.Request) {
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	p.rp.ServeHTTP(cw, r)
	d := time.Since(t0)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.st.RequestNanos += d.Nanoseconds()
	if cw.status == http.StatusServiceUnavailable {
		p.st.Status503++
	}
	switch r.Method {
	case http.MethodGet:
		p.st.Gets++
		switch cw.status {
		case http.StatusOK:
			p.st.GetHits++
			p.st.BytesFetched += cw.n
		case http.StatusNotFound:
			p.st.GetMisses++
		}
	case http.MethodHead:
		p.st.Heads++
		if cw.status == http.StatusNotFound {
			p.st.HeadMisses++
		}
	case http.MethodPut:
		p.st.Puts++
		p.st.BytesStored += body.n
		switch cw.status {
		case http.StatusCreated:
			p.st.PutsCreated++
		case http.StatusOK:
			p.st.PutsOK++
		}
	}
}

func (p *proxy) stats() proxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// stop shuts the proxy down and waits for its server goroutine.
func (p *proxy) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), termGrace)
	defer cancel()
	if err := p.srv.Shutdown(ctx); err != nil {
		_ = p.srv.Close() // the grace period is over; drop what is left
	}
	<-p.done
	p.rp.Transport.(*http.Transport).CloseIdleConnections()
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}
