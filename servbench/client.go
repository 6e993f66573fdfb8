package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// sample is the client's record of one submission attempt.
type sample struct {
	Job     *job
	Outcome outcome
	Err     string
	// Latency runs from sending the POST to receiving the poll that saw
	// a terminal status.
	Latency   time.Duration
	Polls     int
	ViewBytes int64        // summed GET response bodies
	View      service.View // the terminal view
	Done      time.Time
}

// client drives jobs against one servd over keep-alive connections.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: time.Minute},
		base: base,
		tr:   tr,
	}
}

// pollDelay spaces polls at a twentieth of the time already waited,
// between 1ms and 20ms: a fast job is seen within a millisecond, a slow
// one costs at most about twenty polls per doubling of its run time.
func pollDelay(waited time.Duration) time.Duration {
	return min(max(waited/20, time.Millisecond), 20*time.Millisecond)
}

// run submits one job and polls it to a terminal status, giving up
// (as a transport failure) when ctx ends.
func (c *client) run(ctx context.Context, j *job) sample {
	s := sample{Job: j}
	root := c.tr.start("job", j.Label, 0)
	defer c.tr.end(root)

	t0 := time.Now()
	sp := c.tr.start("http.submit", j.Label, root)
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", j.Body)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	c.tr.end(sp)
	if err != nil {
		s.Outcome, s.Err = outcomeTransport, err.Error()
		return s
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		s.Outcome, s.Err = outcomeRejected, "429 "+string(bytes.TrimSpace(body))
		return s
	default:
		s.Outcome, s.Err = outcomeFailed, fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return s
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		s.Outcome, s.Err = outcomeTransport, fmt.Sprintf("submit: bad reply %q", body)
		return s
	}

	for {
		time.Sleep(pollDelay(time.Since(t0)))
		sp := c.tr.start("http.poll", j.Label, root)
		resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+acc.ID, nil)
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		c.tr.end(sp)
		s.Polls++
		s.ViewBytes += int64(len(body))
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		if err != nil {
			s.Outcome, s.Err = outcomeTransport, err.Error()
			return s
		}
		var v service.View
		if err := json.Unmarshal(body, &v); err != nil {
			s.Outcome, s.Err = outcomeTransport, "poll: "+err.Error()
			return s
		}
		if !v.Status.Terminal() {
			continue
		}
		s.Done = time.Now()
		s.Latency = s.Done.Sub(t0)
		s.View = v
		switch v.Status {
		case service.StatusDone:
			s.Outcome = outcomeDone
		case service.StatusCancelled:
			s.Outcome, s.Err = outcomeCancelled, v.Error
		default:
			s.Outcome, s.Err = outcomeFailed, v.Error
		}
		return s
	}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

// closedLoop runs one client per stream until each stream stops: every
// client submits its next request only after the previous one reached a
// terminal status. A refused (429) or lost request is recorded and
// retried after a short pause.
func closedLoop(ctx context.Context, base string, streams []*stream, deadline time.Time, tr *tracer) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	for _, st := range streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			c := newClient(base, tr)
			defer c.http.CloseIdleConnections()
			j, ok := st.next(time.Now(), deadline)
			for ok {
				s := c.run(ctx, j)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
				if s.Outcome == outcomeRejected || s.Outcome == outcomeTransport {
					time.Sleep(50 * time.Millisecond)
					if ctx.Err() == nil && time.Now().Before(deadline) {
						continue
					}
					return
				}
				j, ok = st.next(time.Now(), deadline)
			}
		}(st)
	}
	wg.Wait()
	return out
}
