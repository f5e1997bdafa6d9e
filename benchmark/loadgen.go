package main

import "time"

// schedule is an open-loop arrival schedule: request i is due at i/rate
// after the start, whether or not earlier requests have completed — the
// traffic of independent readers, which does not slow when the server does.
type schedule struct {
	rate float64 // requests per second
}

func (s schedule) due(i int) time.Duration {
	return time.Duration(float64(i) / s.rate * float64(time.Second))
}

// account times one open-loop request from the instant it was due, so a
// stall charges every request queued behind it with the wait it imposed.
// late is how long after its due time the generator managed to send it;
// a read's latency is trusted only while lateness stays well below it.
func account(due, sent, done time.Duration) (lateMs, latencyMs float64) {
	late := sent - due
	if late < 0 {
		late = 0
	}
	return float64(late) / float64(time.Millisecond), float64(done-due) / float64(time.Millisecond)
}
