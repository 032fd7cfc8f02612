package backend

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Remote farms partitions to a cmod daemon's POST /backend endpoint:
// portable HLO bodies stream in, content-addressed objects stream
// back. Any failure — refused connection, timeout, non-200 status,
// malformed or mismatched reply — is returned to the dispatcher,
// which compiles the partition locally instead; a flaky worker
// costs time, never bytes and never correctness.

// DefaultTimeout bounds one partition attempt when the caller sets
// none. Generous: a deadline that fires on a slow-but-working daemon
// only moves the work back to the local pool.
const DefaultTimeout = 60 * time.Second

// RequestContentType is the media type of the binary exchange.
const RequestContentType = "application/x-cmo-backend"

// maxResultBytes caps a reply read: a worker that streams garbage
// forever must not wedge the dispatcher.
const maxResultBytes = 1 << 30

// Remote farms partitions to one daemon address. Compile must not
// return partial results: an error (or expired ctx) means the caller
// compiles the partition elsewhere.
type Remote struct {
	// Addr is the daemon base URL ("http://host:port").
	Addr string
	// Client, when nil, uses http.DefaultClient.
	Client *http.Client
	// Timeout is the per-partition deadline (0 = DefaultTimeout).
	Timeout time.Duration
}

// Name identifies the worker in telemetry and error text.
func (r *Remote) Name() string { return r.Addr }

// Compile posts the partition and validates the reply against the
// request: the fingerprint must echo and exactly the requested
// functions must come back, in order. A daemon that answers with the
// wrong shape is treated like one that did not answer.
func (r *Remote) Compile(ctx context.Context, req *Request) (*Result, error) {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	url := strings.TrimSuffix(r.Addr, "/") + "/backend"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(EncodeRequest(req)))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", RequestContentType)
	client := r.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("backend: %s answered %s: %s", r.Addr, resp.Status, truncate(body, 200))
	}
	res, err := DecodeResult(body)
	if err != nil {
		return nil, err
	}
	if res.FP != req.Part.FP {
		return nil, fmt.Errorf("backend: %s echoed partition %s, want %s", r.Addr, res.FP, req.Part.FP)
	}
	if len(res.Objects) != len(req.Part.Funcs) {
		return nil, fmt.Errorf("backend: %s returned %d objects for %d functions", r.Addr, len(res.Objects), len(req.Part.Funcs))
	}
	for i := range res.Objects {
		if res.Objects[i].Name != req.Part.Funcs[i].Name {
			return nil, fmt.Errorf("backend: %s object %d is %s, want %s", r.Addr, i, res.Objects[i].Name, req.Part.Funcs[i].Name)
		}
	}
	return res, nil
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		s = s[:n] + "..."
	}
	return s
}
