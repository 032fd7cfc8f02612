package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cmo/internal/cas"
)

// A daemon whose CAS slots are all busy sheds with 429 and Retry-After
// (overload, which clients count as a miss) and counts it in
// cmod_cas_shed_total; only a draining daemon answers 503.
func TestCASAtCapacitySheds429(t *testing.T) {
	store, err := cas.OpenStore(t.TempDir(), cas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{CAS: store, CASSlots: 1})
	defer srv.Drain() // closes the store
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	url := hs.URL + "/cas/default/" + casTestKey("shed")

	srv.casSlots <- struct{}{} // occupy the only slot
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("at capacity: %d, Retry-After %q; want 429 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	<-srv.casSlots
	if resp, err = http.Get(url); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("with a free slot: %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\ncmod_cas_shed_total 1\n") {
		t.Errorf("metrics do not count one shed:\n%s", body)
	}
}
