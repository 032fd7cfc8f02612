package cas

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ClientConfig shapes a Client. The zero value is usable: the
// "default" namespace, 5s per request, a 256-deep write-back queue,
// a breaker that trips after 3 consecutive failures for 15s.
type ClientConfig struct {
	// Namespace is the tenant namespace every request uses (default
	// "default").
	Namespace string
	// Timeout bounds one HTTP request (default 5s). A fetch that
	// cannot finish in time is a miss, never a stall.
	Timeout time.Duration
	// QueueDepth bounds the asynchronous write-back backlog (default
	// 256). A full queue drops the store and counts it — the session
	// never blocks on the remote.
	QueueDepth int
	// FailureLimit is how many consecutive request failures trip the
	// breaker (default 3).
	FailureLimit int
	// Cooldown is how long a tripped breaker keeps the client
	// local-only before it retries the remote (default 15s).
	Cooldown time.Duration
	// Token, when non-empty, is the shared secret sent as
	// "Authorization: Bearer <token>" on every request, for daemons
	// started with a CAS token (cmod -cas-token). Empty sends nothing.
	Token string
}

// maxIdleConns is how many idle connections to the service a client
// keeps for reuse. It must cover every goroutine that calls the client
// at once — a build's Jobs workers plus the write-back worker — or the
// surplus requests each close their connection and the next ones dial
// again (http.DefaultTransport keeps 2 per host).
const maxIdleConns = 64

// ClientStats is a point-in-time snapshot of a Client's cumulative
// counters. Sub computes the delta one build contributed.
type ClientStats struct {
	Hits       int64 // remote gets that returned bytes
	Misses     int64 // remote gets answered 404 (healthy misses)
	Errors     int64 // requests that failed (network, timeout, 5xx)
	Shed       int64 // requests the service refused at capacity (429)
	Stores     int64 // blobs written back (201/200)
	StoreSkips int64 // write-backs skipped because the remote had the key
	StoreDrops int64 // write-backs dropped (queue full, breaker open, closed)
	Trips      int64 // times the breaker opened

	BytesFetched int64 // payload bytes fetched by hits
	BytesStored  int64 // payload bytes written back
}

// Sub returns s - prev, field by field.
func (s ClientStats) Sub(prev ClientStats) ClientStats {
	return ClientStats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Errors:       s.Errors - prev.Errors,
		Shed:         s.Shed - prev.Shed,
		Stores:       s.Stores - prev.Stores,
		StoreSkips:   s.StoreSkips - prev.StoreSkips,
		StoreDrops:   s.StoreDrops - prev.StoreDrops,
		Trips:        s.Trips - prev.Trips,
		BytesFetched: s.BytesFetched - prev.BytesFetched,
		BytesStored:  s.BytesStored - prev.BytesStored,
	}
}

// wbItem is one queued write-back.
type wbItem struct {
	key  string
	blob []byte
}

// Client is a session's handle on a remote CAS service: synchronous
// gets with a timeout, asynchronous bounded write-back, and a breaker
// that degrades to local-only after consecutive failures. Every
// failure mode is absorbed — a Client can make a build slower or
// warmer, never different or broken. Safe for concurrent use.
type Client struct {
	base string
	ns   string
	tr   *http.Transport
	hc   *http.Client
	cfg  ClientConfig

	mu     sync.Mutex // guards queue send vs close
	queue  chan wbItem
	closed bool
	wg     sync.WaitGroup

	consecFails atomic.Int64
	downUntil   atomic.Int64 // unix nanos; breaker open until then

	hits, misses, errors atomic.Int64
	// shed counts 429s: the service is healthy but at capacity, which
	// is neither a fault nor proof of health, so the breaker's count is
	// left as it was and the request is simply a miss.
	shed                     atomic.Int64
	stores, skips, drops     atomic.Int64
	trips                    atomic.Int64
	bytesFetched, bytesAdded atomic.Int64
}

// NewClient returns a client for the CAS service at base
// ("http://host:port") and starts its write-back worker.
func NewClient(base string, cfg ClientConfig) *Client {
	if cfg.Namespace == "" {
		cfg.Namespace = "default"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.FailureLimit <= 0 {
		cfg.FailureLimit = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 15 * time.Second
	}
	tr := &http.Transport{}
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		tr = dt.Clone()
	}
	tr.MaxIdleConns = maxIdleConns
	tr.MaxIdleConnsPerHost = maxIdleConns
	c := &Client{
		base:  cleanBase(base),
		ns:    cfg.Namespace,
		tr:    tr,
		hc:    &http.Client{Timeout: cfg.Timeout, Transport: tr},
		cfg:   cfg,
		queue: make(chan wbItem, cfg.QueueDepth),
	}
	c.wg.Add(1)
	go c.writeback()
	return c
}

// Namespace reports the tenant namespace this client operates in.
func (c *Client) Namespace() string { return c.ns }

func (c *Client) url(key string) string {
	return c.base + "/cas/" + c.ns + "/" + key
}

// auth attaches the shared-secret token, when configured.
func (c *Client) auth(req *http.Request) {
	if c.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.Token)
	}
}

// degraded reports whether the breaker is open.
func (c *Client) degraded() bool {
	return time.Now().UnixNano() < c.downUntil.Load()
}

// fail records one request failure and trips the breaker at the
// configured limit.
func (c *Client) fail() {
	c.errors.Add(1)
	if c.consecFails.Add(1) >= int64(c.cfg.FailureLimit) {
		c.consecFails.Store(0)
		c.downUntil.Store(time.Now().Add(c.cfg.Cooldown).UnixNano())
		c.trips.Add(1)
	}
}

// ok resets the consecutive-failure count: any completed round trip
// (hit or healthy 404) proves the service is alive.
func (c *Client) ok() { c.consecFails.Store(0) }

// Get fetches the blob for key. Any failure — breaker open, network
// error, timeout, unexpected status, torn body, checksum mismatch —
// is a miss; only a 200 whose complete body matches the service's
// X-Cmo-Sum is a hit, so corrupted bytes can never fill the local
// repository. The transport handles gzip transparently.
func (c *Client) Get(key string) ([]byte, bool) {
	if c.degraded() {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(key), nil)
	if err != nil {
		c.fail()
		return nil, false
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail()
		return nil, false
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			c.fail()
			return nil, false
		}
		if want := resp.Header.Get(sumHeader); want != "" && want != formatSum(blobSum(c.ns, key, blob)) {
			// The body that arrived is not what the service read from
			// its disk: corruption in transit. Counted as a failure, not
			// a healthy miss — repeated mismatches should trip the
			// breaker rather than hammer a broken path.
			c.fail()
			return nil, false
		}
		c.ok()
		c.hits.Add(1)
		c.bytesFetched.Add(int64(len(blob)))
		return blob, true
	case http.StatusNotFound:
		c.ok()
		c.misses.Add(1)
		return nil, false
	case http.StatusTooManyRequests:
		c.shed.Add(1)
		return nil, false
	default:
		c.fail()
		return nil, false
	}
}

// PutAsync queues a write-back of blob under key. It never blocks: a
// full queue, an open breaker, or a closed client drops the store and
// counts the drop.
func (c *Client) PutAsync(key string, blob []byte) {
	if c.degraded() {
		c.drops.Add(1)
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.drops.Add(1)
		return
	}
	select {
	case c.queue <- wbItem{key: key, blob: blob}:
		c.mu.Unlock()
	default:
		c.mu.Unlock()
		c.drops.Add(1)
	}
}

// writeback drains the queue: probe with HEAD (If-None-Match against
// the key's ETag — an existence test on an immutable store), then PUT
// with a gzip body when the blob is large enough to benefit.
func (c *Client) writeback() {
	defer c.wg.Done()
	for item := range c.queue {
		if c.degraded() {
			c.drops.Add(1)
			continue
		}
		if c.headHas(item.key) {
			c.skips.Add(1)
			continue
		}
		c.put(item.key, item.blob)
	}
}

// headHas asks the service whether it already holds key. Errors
// answer false — the PUT that follows is itself a no-op server-side
// if the key landed meanwhile.
func (c *Client) headHas(key string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.url(key), nil)
	if err != nil {
		return false
	}
	req.Header.Set("If-None-Match", etagFor(key))
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail()
		return false
	}
	drainClose(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified {
		c.ok()
		return true
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		c.ok()
	case http.StatusTooManyRequests:
		c.shed.Add(1)
	}
	return false
}

func (c *Client) put(key string, blob []byte) {
	body := blob
	encoding := ""
	if len(blob) >= gzipMinBytes {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		_, _ = gz.Write(blob)
		_ = gz.Close()
		if buf.Len() < len(blob) {
			body = buf.Bytes()
			encoding = "gzip"
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(key), bytes.NewReader(body))
	if err != nil {
		c.fail()
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// The checksum covers the uncompressed payload; the daemon refuses
	// the write if the bytes that arrive don't match it.
	req.Header.Set(sumHeader, formatSum(blobSum(c.ns, key, blob)))
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail()
		return
	}
	drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusOK:
		c.ok()
		c.stores.Add(1)
		c.bytesAdded.Add(int64(len(blob)))
	case http.StatusTooManyRequests:
		c.shed.Add(1)
	default:
		c.fail()
	}
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Errors:       c.errors.Load(),
		Shed:         c.shed.Load(),
		Stores:       c.stores.Load(),
		StoreSkips:   c.skips.Load(),
		StoreDrops:   c.drops.Load(),
		Trips:        c.trips.Load(),
		BytesFetched: c.bytesFetched.Load(),
		BytesStored:  c.bytesAdded.Load(),
	}
}

// Close stops accepting write-backs, drains the backlog (bounded by
// queue depth × request timeout; far less once the breaker trips),
// and waits for the worker to exit. Idempotent.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.queue)
	c.mu.Unlock()
	c.wg.Wait()
	c.tr.CloseIdleConnections()
}

// drainClose reads what is left of a response body (a 404's message,
// say) before closing it: the transport reuses a connection only
// after its body was read to the end.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}
