package memostore

// flightCall is one in-flight execution shared by concurrent callers.
type flightCall struct {
	done    chan struct{}
	val     any
	waiters int // followers parked on done; guarded by Store.fmu
}

// Do collapses concurrent executions of the same key: the first caller
// for k runs fn and every caller that arrives while it is in flight
// blocks and shares the result (shared=true). The flight table lives on
// the Store so independent engines spilling to one memo store — a
// campaign, a bisect job, and a precheck racing over the same corpus —
// collapse duplicate work across engine boundaries, not just within one
// engine's in-memory cache.
//
// fn's result is shared by reference; callers must treat it as immutable
// (the runner's images and crashes already are). Followers wait without a
// context: leaders hold a worker slot and run promptly, exactly like the
// in-memory compile layer's waiters.
func (s *Store) Do(k Key, fn func() any) (val any, shared bool) {
	s.fmu.Lock()
	if c, ok := s.flights[k]; ok {
		c.waiters++
		s.fmu.Unlock()
		<-c.done
		return c.val, true
	}
	c := &flightCall{done: make(chan struct{})}
	s.flights[k] = c
	s.fmu.Unlock()

	c.val = fn()

	s.fmu.Lock()
	delete(s.flights, k)
	s.fmu.Unlock()
	close(c.done)
	return c.val, false
}

// flightWaiters reports how many followers are parked on k's in-progress
// flight, or -1 when no flight for k is running (tests). A follower is
// counted under the same lock that admits it, so once the count reaches n,
// n callers are committed to sharing the leader's result.
func (s *Store) flightWaiters(k Key) int {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if c, ok := s.flights[k]; ok {
		return c.waiters
	}
	return -1
}
