package cas

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClientGetFill(t *testing.T) {
	s, srv := newTestService(t, Config{})
	key := keyFor("client-get")
	blob := blobOf("client-get", 2048)
	if err := s.Put("ns1", key, blob); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, ClientConfig{Namespace: "ns1"})
	defer c.Close()
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("get: ok=%v, %d bytes", ok, len(got))
	}
	if _, ok := c.Get(keyFor("absent")); ok {
		t.Fatal("absent key hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// Write-back is asynchronous: the put lands without the caller
// waiting, and Close drains whatever is still queued.
func TestClientWriteback(t *testing.T) {
	s, srv := newTestService(t, Config{})
	c := NewClient(srv.URL, ClientConfig{Namespace: "wb"})
	key := keyFor("wb")
	blob := blobOf("wb", 4096)
	c.PutAsync(key, blob)
	waitFor(t, "write-back to land", func() bool { return s.Has("wb", key) })
	got, ok := s.Get("wb", key)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("stored blob wrong: ok=%v", ok)
	}
	// A second write-back of the same key is skipped by the HEAD probe.
	c.PutAsync(key, blob)
	waitFor(t, "duplicate skip", func() bool { return c.Stats().StoreSkips == 1 })
	c.Close()
	if st := c.Stats(); st.Stores != 1 {
		t.Fatalf("stores = %d, want 1: %+v", st.Stores, st)
	}
}

// Close flushes the backlog: queue a batch and close immediately —
// every blob must be on the service afterward.
func TestClientCloseDrains(t *testing.T) {
	s, srv := newTestService(t, Config{})
	c := NewClient(srv.URL, ClientConfig{Namespace: "drain"})
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = keyFor(string(rune('a'+i)) + "-drain")
		c.PutAsync(keys[i], blobOf(keys[i], 512))
	}
	c.Close()
	for _, k := range keys {
		if !s.Has("drain", k) {
			t.Fatalf("key %s not flushed by Close", k[:8])
		}
	}
	// PutAsync after Close drops, never panics.
	c.PutAsync(keyFor("late"), []byte("late"))
	if st := c.Stats(); st.StoreDrops == 0 {
		t.Fatal("post-close put not counted as a drop")
	}
}

// A full queue sheds stores without blocking the caller.
func TestClientBoundedBacklog(t *testing.T) {
	// A server that stalls forever keeps the worker busy on the first
	// item so the queue fills behind it.
	stall := make(chan struct{})
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		<-stall
	}))
	defer srv.Close()
	defer close(stall)

	c := NewClient(srv.URL, ClientConfig{QueueDepth: 4, Timeout: 10 * time.Second})
	waitStart := func() bool { return reqs.Load() > 0 }
	c.PutAsync(keyFor("q0"), []byte("x")) // worker picks this up
	waitFor(t, "worker to start", waitStart)
	for i := 1; i <= 4; i++ {
		c.PutAsync(keyFor(string(rune('0'+i))+"-q"), []byte("x")) // fills the queue
	}
	c.PutAsync(keyFor("overflow"), []byte("x"))
	if st := c.Stats(); st.StoreDrops == 0 {
		t.Fatalf("overflow store not dropped: %+v", st)
	}
	// Don't wait for the stalled drain.
	go c.Close()
}

// Consecutive failures trip the breaker: the client goes local-only
// (instant misses, dropped stores) instead of hammering a dead
// service, then recovers after the cooldown.
func TestClientBreaker(t *testing.T) {
	s, _ := newTestService(t, Config{})
	key := keyFor("breaker")
	if err := s.Put("default", key, []byte("alive")); err != nil {
		t.Fatal(err)
	}

	var down atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		Handler(s).ServeHTTP(w, r)
	}))
	defer proxy.Close()

	c := NewClient(proxy.URL, ClientConfig{
		FailureLimit: 2,
		Cooldown:     50 * time.Millisecond,
		Timeout:      time.Second,
	})
	defer c.Close()

	if _, ok := c.Get(key); !ok {
		t.Fatal("healthy get missed")
	}
	down.Store(true)
	c.Get(key)
	c.Get(key) // second consecutive failure trips
	if st := c.Stats(); st.Trips != 1 {
		t.Fatalf("trips = %d after %d errors", st.Trips, st.Errors)
	}
	if !c.degraded() {
		t.Fatal("breaker not open")
	}
	// While open, gets answer instantly without a request and puts drop.
	errsBefore := c.Stats().Errors
	if _, ok := c.Get(key); ok {
		t.Fatal("degraded get hit")
	}
	c.PutAsync(keyFor("while-down"), []byte("x"))
	if st := c.Stats(); st.Errors != errsBefore {
		t.Fatal("degraded get still issued a request")
	}
	// Recovery: cooldown passes, service healthy again, hits resume.
	down.Store(false)
	time.Sleep(60 * time.Millisecond)
	if _, ok := c.Get(key); !ok {
		t.Fatal("get after cooldown missed")
	}
}

// A 429 from a service at capacity is a shed miss: it neither feeds
// the breaker nor resets its count of consecutive faults.
func TestClientShedLeavesBreakerAlone(t *testing.T) {
	s, _ := newTestService(t, Config{})
	key := keyFor("shed")
	if err := s.Put("default", key, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	var status atomic.Int64 // 0 = serve normally
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if code := int(status.Load()); code != 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", code)
			return
		}
		Handler(s).ServeHTTP(w, r)
	}))
	defer proxy.Close()
	c := NewClient(proxy.URL, ClientConfig{FailureLimit: 2, Cooldown: time.Minute, Timeout: time.Second})
	defer c.Close()

	status.Store(http.StatusTooManyRequests)
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(key); ok {
			t.Fatal("shed get hit")
		}
	}
	if st := c.Stats(); st.Shed != 5 || st.Errors != 0 || st.Trips != 0 || c.degraded() {
		t.Fatalf("five sheds: %+v, degraded=%v", st, c.degraded())
	}
	// fault, shed, fault: the shed in between must not reset the
	// count, so the second fault trips the breaker.
	status.Store(http.StatusInternalServerError)
	c.Get(key)
	status.Store(http.StatusTooManyRequests)
	c.Get(key)
	status.Store(http.StatusInternalServerError)
	c.Get(key)
	if st := c.Stats(); st.Trips != 1 || st.Errors != 2 || st.Shed != 6 {
		t.Fatalf("fault, shed, fault: %+v", st)
	}
}

// A body corrupted between service and client fails the checksum
// check and answers as a miss: corrupt bytes can never fill the local
// repository, and the failure counts toward the breaker rather than
// as a healthy miss.
func TestClientRejectsCorruptBody(t *testing.T) {
	s, _ := newTestService(t, Config{})
	key := keyFor("transit")
	blob := blobOf("transit", 1024)
	if err := s.Put("default", key, blob); err != nil {
		t.Fatal(err)
	}
	var corrupt atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !corrupt.Load() {
			Handler(s).ServeHTTP(w, r)
			return
		}
		// The service's honest checksum with dishonest bytes — a
		// flipped bit somewhere on the path.
		w.Header().Set(sumHeader, formatSum(blobSum("default", key, blob)))
		flipped := append([]byte(nil), blob...)
		flipped[0] ^= 0x01
		w.Write(flipped)
	}))
	defer proxy.Close()

	c := NewClient(proxy.URL, ClientConfig{})
	defer c.Close()
	corrupt.Store(true)
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt body accepted")
	}
	if st := c.Stats(); st.Hits != 0 || st.Errors != 1 {
		t.Fatalf("corrupt fetch stats: %+v", st)
	}
	corrupt.Store(false)
	if got, ok := c.Get(key); !ok || !bytes.Equal(got, blob) {
		t.Fatalf("clean fetch after corruption: ok=%v", ok)
	}
}

// An unreachable service is absorbed entirely: misses and drops, no
// errors escaping, and the breaker keeps latency bounded.
func TestClientUnreachableService(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", ClientConfig{
		Timeout:      200 * time.Millisecond,
		FailureLimit: 2,
		Cooldown:     time.Minute,
	})
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(keyFor("unreachable")); ok {
			t.Fatal("hit against nothing")
		}
		c.PutAsync(keyFor("unreachable-put"), []byte("x"))
	}
	st := c.Stats()
	if st.Trips == 0 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if st.Hits != 0 || st.Stores != 0 {
		t.Fatalf("phantom traffic: %+v", st)
	}
}

// TestClientReusesConnections: a burst of concurrent GETs, hits and
// 404 misses alike, from more goroutines than http.DefaultTransport
// keeps idle per host (2) opens about one connection per goroutine and
// then reuses them, instead of dialing again for every request beyond
// the second.
func TestClientReusesConnections(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(Handler(s))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(func() { srv.Close(); s.Close() })

	hit := keyFor("reuse-hit")
	if err := s.Put("ns1", hit, blobOf("reuse-hit", 512)); err != nil {
		t.Fatal(err)
	}
	miss := keyFor("reuse-miss")
	c := NewClient(srv.URL, ClientConfig{Namespace: "ns1"})
	defer c.Close()

	const workers, rounds = 8, 6
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				key := hit
				if w%2 == 1 {
					key = miss
				}
				c.Get(key)
			}(w)
		}
		wg.Wait()
		// Let the transport return the connections to its idle pool.
		time.Sleep(10 * time.Millisecond)
	}
	st := c.Stats()
	if st.Hits != workers/2*rounds || st.Misses != workers/2*rounds || st.Errors != 0 {
		t.Fatalf("stats %+v: want %d hits, %d misses, no errors", st, workers/2*rounds, workers/2*rounds)
	}
	// One connection per concurrent request at most, plus slack for a
	// dial that raced a connection going idle.
	if n := opened.Load(); n > workers+2 {
		t.Errorf("%d requests opened %d connections, want at most %d", workers*rounds, n, workers+2)
	}
}
