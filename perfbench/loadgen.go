package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// errLateDrop marks an open-loop request the generator could not send
// before its cutoff.
var errLateDrop = errors.New("not sent before the run's cutoff")

// sample is one finished request as the load generator saw it.
type sample struct {
	Seq int
	// Due is when the request was due to be sent (open loop) or when its
	// caller became free to send it (closed loop); Start is when it was
	// sent and Done when its answer arrived.
	Due, Start, Done time.Time
	Err              error
}

// Latency is the time from due to done: in an open loop it includes the
// wait a stall imposes on requests that fell due behind it.
func (s sample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Late is how far behind its schedule the generator sent the request.
func (s sample) Late() time.Duration { return s.Start.Sub(s.Due) }

// issueFunc sends request seq over connection conn and reports its
// outcome; it must return once the answer is in and checked.
type issueFunc func(ctx context.Context, conn, seq int) error

// closedLoop runs conns callers, each sending its next request as soon as
// the previous one is answered, until d has elapsed. Requests are numbered
// from 0 in the order callers take them.
func closedLoop(ctx context.Context, conns int, d time.Duration, issue issueFunc) []sample {
	end := time.Now().Add(d)
	var next atomic.Int64
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				start := time.Now()
				if !start.Before(end) {
					return
				}
				seq := int(next.Add(1) - 1)
				err := issue(ctx, c, seq)
				out[c] = append(out[c], sample{Seq: seq, Due: start, Start: start, Done: time.Now(), Err: err})
			}
		}(c)
	}
	wg.Wait()
	return merge(out)
}

// openLoop sends requests on a fixed schedule, rate per second for d,
// over at most conns connections. Request i falls due at start + i/rate;
// a request that falls due while every connection is busy waits for one,
// and that wait counts in its latency because latency runs from the due
// time. Requests not sent within grace after the window are dropped and
// reported with errLateDrop.
func openLoop(ctx context.Context, rate float64, d time.Duration, conns int, grace time.Duration, issue issueFunc) []sample {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	cutoff := start.Add(d + grace)
	var next atomic.Int64
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				seq := int(next.Add(1) - 1)
				if seq >= n {
					return
				}
				due := start.Add(time.Duration(seq) * interval)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Now()
				s := sample{Seq: seq, Due: due, Start: sent}
				if sent.After(cutoff) || ctx.Err() != nil {
					s.Done, s.Err = sent, errLateDrop
				} else {
					s.Err = issue(ctx, c, seq)
					s.Done = time.Now()
				}
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	return merge(out)
}

// merge flattens per-connection samples into sequence order.
func merge(per [][]sample) []sample {
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}
