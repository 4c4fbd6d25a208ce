package flight

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func intShard(k int) byte { return byte(k) }

// joined reports how many lookups have found k's entry, or -1 when no entry
// for k is held. A lookup is counted under the same lock that admits it, so
// once the count reaches n while the fill is blocked, n callers are parked
// on that fill.
func (c *Cache[K, V]) joined(k K) int32 {
	s := &c.shards[c.shardOf(k)&(Shards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[k]; ok {
		return e.joined
	}
	return -1
}

func waitJoined(c *Cache[int, string], k int, n int32) {
	for c.joined(k) < n {
		runtime.Gosched()
	}
}

// TestFlightDo pins the singleflight contract of a retain-nothing cache (the
// memo store's Do): 8 concurrent callers, 1 fill, and the 7 followers parked
// on it all share its value; a later call after the flight drained fills
// afresh.
func TestFlightDo(t *testing.T) {
	c := New[int, string](0, intShard)
	var runs atomic.Int32
	var sharedN atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	const k = 7
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared := true
			v, err := c.Do(context.Background(), k, func() (string, error) {
				shared = false
				runs.Add(1)
				<-release
				return "outcome", nil
			})
			if shared {
				sharedN.Add(1)
			}
			if v != "outcome" || err != nil {
				t.Errorf("Do returned %q, %v", v, err)
			}
		}()
	}
	// Release the leader only once the other 7 callers are parked on its
	// flight: a caller that reached Do after the flight ended would
	// (correctly) start a fresh one.
	waitJoined(c, k, 7)
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times", runs.Load())
	}
	if sharedN.Load() != 7 {
		t.Fatalf("%d callers shared the flight, want 7", sharedN.Load())
	}
	// A later Do after the flight drained runs fresh.
	shared := true
	c.Do(context.Background(), k, func() (string, error) { shared = false; runs.Add(1); return "", nil })
	if shared {
		t.Fatal("post-drain Do reported shared")
	}
	if runs.Load() != 2 {
		t.Fatalf("fn ran %d times total", runs.Load())
	}
}

// A hit is counted only when a value is delivered: a waiter canceled while
// parked and a waiter whose leader withdrew count nothing, and the retrying
// waiter's own fill counts as a fill, not a hit.
func TestHitsCountOnlyDeliveredValues(t *testing.T) {
	c := New[int, string](4, intShard)
	const k = 3
	var fills atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	errWithdraw := errors.New("withdrawn")
	leaderDone := make(chan error)
	go func() {
		_, err := c.Do(context.Background(), k, func() (string, error) {
			fills.Add(1)
			close(started)
			<-release
			return "", errWithdraw
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	canceledDone := make(chan error)
	go func() {
		_, err := c.Do(ctx, k, func() (string, error) { fills.Add(1); return "canceled", nil })
		canceledDone <- err
	}()
	retryDone := make(chan string)
	go func() {
		v, _ := c.Do(context.Background(), k, func() (string, error) { fills.Add(1); return "retried", nil })
		retryDone <- v
	}()
	waitJoined(c, k, 2)

	cancel()
	if err := <-canceledDone; err != context.Canceled {
		t.Fatalf("canceled waiter returned %v", err)
	}
	close(release)
	if err := <-leaderDone; err != errWithdraw {
		t.Fatalf("leader returned %v", err)
	}
	if v := <-retryDone; v != "retried" {
		t.Fatalf("retrying waiter got %q", v)
	}
	if h, f := c.Hits(), fills.Load(); h != 0 || f != 2 {
		t.Fatalf("hits %d fills %d, want 0 and 2", h, f)
	}
	if v, _ := c.Do(context.Background(), k, func() (string, error) { fills.Add(1); return "", nil }); v != "retried" {
		t.Fatalf("cached value %q", v)
	}
	if h, f := c.Hits(), fills.Load(); h != 1 || f != 2 {
		t.Fatalf("hits %d fills %d, want 1 and 2", h, f)
	}
}

// After a withdrawal every parked waiter retries, and exactly one of them
// fills again; the rest are served that fill's value.
func TestWithdrawalRefillsOnce(t *testing.T) {
	c := New[int, string](4, intShard)
	const k, waiters = 5, 6
	var fills atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	go c.Do(context.Background(), k, func() (string, error) {
		close(started)
		<-release
		return "", errors.New("withdrawn")
	})
	<-started
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), k, func() (string, error) { fills.Add(1); return "refilled", nil })
			if v != "refilled" || err != nil {
				t.Errorf("waiter got %q, %v", v, err)
			}
		}()
	}
	waitJoined(c, k, waiters)
	close(release)
	wg.Wait()
	if f, h := fills.Load(), c.Hits(); f != 1 || h != waiters-1 {
		t.Fatalf("fills %d hits %d, want 1 and %d", f, h, waiters-1)
	}
}

// Eviction only ever discards completed entries: with one fill held in
// flight per shard, a stream of distinct keys keeps every shard within cap
// plus that one in-flight entry, and the in-flight entries survive to serve
// their waiters.
func TestEvictionSparesInFlight(t *testing.T) {
	const perShard = 1 // the smallest cap makes every insertion overshoot or evict
	c := New[int, string](perShard, intShard)
	release := make(chan struct{})
	var held sync.WaitGroup
	for s := 0; s < Shards; s++ {
		started := make(chan struct{})
		held.Add(1)
		go func() {
			defer held.Done()
			c.Do(context.Background(), s, func() (string, error) {
				close(started)
				<-release
				return "held", nil
			})
		}()
		<-started
	}
	for k := Shards; k < 40*Shards; k++ {
		c.Do(context.Background(), k, func() (string, error) { return "x", nil })
		if n := c.Len(); n > Shards*(perShard+1) {
			t.Fatalf("after key %d: Len %d > %d", k, n, Shards*(perShard+1))
		}
	}
	if n := c.Len(); n != Shards*(perShard+1) {
		t.Fatalf("Len %d, want %d", n, Shards*(perShard+1))
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions")
	}
	for s := 0; s < Shards; s++ {
		if c.joined(s) < 0 {
			t.Fatalf("in-flight entry %d was evicted", s)
		}
	}
	close(release)
	held.Wait()
	for s := 0; s < Shards; s++ {
		v, _ := c.Do(context.Background(), s, func() (string, error) { return "refilled", nil })
		if v != "held" {
			t.Fatalf("key %d: got %q, want the held fill's value", s, v)
		}
	}
}

func TestCapZeroRetainsNothing(t *testing.T) {
	c := New[int, string](0, intShard)
	fills := 0
	for i := 0; i < 3; i++ {
		c.Do(context.Background(), 1, func() (string, error) { fills++; return "v", nil })
	}
	if fills != 3 || c.Len() != 0 || c.Hits() != 0 || c.Evictions() != 0 {
		t.Fatalf("fills %d Len %d hits %d evictions %d", fills, c.Len(), c.Hits(), c.Evictions())
	}
}

// A hit allocates nothing, so the fill closure must not escape either.
func TestHitDoesNotAllocate(t *testing.T) {
	c := New[int, string](4, intShard)
	ctx, captured := context.Background(), "v"
	c.Do(ctx, 1, func() (string, error) { return captured, nil })
	if n := testing.AllocsPerRun(100, func() {
		c.Do(ctx, 1, func() (string, error) { return captured, nil })
	}); n != 0 {
		t.Fatalf("hit allocated %v times", n)
	}
}
