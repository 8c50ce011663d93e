package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one answered request.
type sample struct {
	idx     int // index into the phase's request list
	lat     time.Duration
	status  int
	tag     string // X-DTServe-Cache
	address string // X-DTServe-Address
	body    []byte // nil when it matched the expected body
	err     error  // transport failure
}

// newClient returns an HTTP client holding at most conns keep-alive
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// phase sends n requests to the server from clients closed-loop workers,
// each sending its next request only after the previous one completed.
// Workers claim the indexes 0 to n-1 in order from a shared counter and
// send reqs[k % len(reqs)] for index k, so every claimed index is sent and
// the phase does the same work however fast the server is. expect, when
// non-nil, holds the body each request must return: a response equal to
// it is recorded without its bytes.
func phase(ctx context.Context, client *http.Client, base string, reqs []request,
	clients, n int, expect [][]byte) ([]sample, time.Duration, error) {

	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					break
				}
				idx := k % len(reqs)
				var want []byte
				if expect != nil {
					want = expect[idx]
				}
				local = append(local, send(ctx, client, base, &reqs[idx], idx, want))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start), ctx.Err()
}

// send posts one request and reads the whole response.
func send(ctx context.Context, client *http.Client, base string, r *request, idx int, want []byte) sample {
	body := io.MultiReader(bytes.NewReader([]byte(bodyHead)),
		bytes.NewReader(r.prob.graphJSON), bytes.NewReader(r.tail))
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/schedule", body)
	if err != nil {
		return sample{idx: idx, err: err}
	}
	hreq.ContentLength = int64(r.size())
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return sample{idx: idx, err: err}
	}
	var buf bytes.Buffer
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength))
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s := sample{idx: idx, lat: time.Since(t0), status: resp.StatusCode, err: err,
		tag: resp.Header.Get("X-DTServe-Cache"), address: resp.Header.Get("X-DTServe-Address")}
	if want == nil || !bytes.Equal(buf.Bytes(), want) {
		s.body = buf.Bytes()
	}
	return s
}

// failed reports whether the sample failed at the transport or HTTP level.
func (s *sample) failed() error {
	switch {
	case s.err != nil:
		return s.err
	case s.status != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", s.status, s.body)
	}
	return nil
}

var errMismatch = errors.New("response differs from the validated body for its request")
