package main

import "time"

// calibrator measures how fast the host is while a timed sample runs. The
// sandboxes this benchmark runs in share a core with neighbours: a fixed
// single-threaded loop takes 3.8 ms at best and 5.4 ms when a neighbour is
// busy, and the share of a run spent at either speed moves its raw rates by
// 10-20% from run to run whatever statistic is taken over the laps
// (README.md, "Steadiness"). The neighbours only ever slow a run down, and
// every few seconds they leave the core alone, so the fastest spin of a run
// is the host's own speed. Each timed lap is therefore opened, interleaved
// and closed with spins, and a rate is computed from lap times scaled by
// fastest spin ÷ the lap's mean spin: what the work takes on this host when
// nobody else is using it. No constant of any particular machine enters.
type calibrator struct {
	buf     []float64
	fastest float64 // the run's fastest spin, seconds
	total   float64 // seconds spent spinning over the calibrator's life
	spins   int

	start time.Time
	spent time.Duration // in spins since the lap opened
	sum   float64       // spin seconds since the lap opened
	n     int
}

// lap is one timed sample: its wall time without the spins, and the mean
// time of the spins that opened, interleaved and closed it.
type lap struct{ wallS, spinS float64 }

func newCalibrator() *calibrator {
	return &calibrator{buf: make([]float64, 1<<15)}
}

// spin runs the fixed loop — integer mixing plus dependent float updates
// over an L2-resident table, about 4 ms — and returns its wall time.
func (c *calibrator) spin() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(c.buf))
		c.buf[j] = c.buf[j]*0.999 + float64(x&1023)
	}
	s := time.Since(t).Seconds()
	if c.fastest == 0 || s < c.fastest {
		c.fastest = s
	}
	c.total += s
	c.spins++
	return s
}

// begin opens a lap with a spin.
func (c *calibrator) begin() {
	s := c.spin()
	c.start, c.spent, c.sum, c.n = time.Now(), 0, s, 1
}

// tick spins once inside the open lap; the spin's time is not the lap's. A
// nil calibrator does nothing, for code shared with set-up.
func (c *calibrator) tick() {
	if c == nil {
		return
	}
	s := c.spin()
	c.spent += time.Duration(s * float64(time.Second))
	c.sum += s
	c.n++
}

// end closes the lap with a spin, which also opens the next one: laps that
// run back to back call begin once and end after each.
func (c *calibrator) end() lap {
	wall := (time.Since(c.start) - c.spent).Seconds()
	s := c.spin()
	l := lap{wallS: wall, spinS: (c.sum + s) / float64(c.n+1)}
	c.start, c.spent, c.sum, c.n = time.Now(), 0, s, 1
	return l
}

// unloaded returns the laps' wall times as they would have been with the
// host at the speed of the run's fastest spin throughout.
func (c *calibrator) unloaded(laps []lap) []float64 {
	out := make([]float64, len(laps))
	for i, l := range laps {
		out[i] = l.wallS * c.fastest / l.spinS
	}
	return out
}

// slowdown is the run's mean spin over its fastest: how much the neighbours
// slowed this run.
func (c *calibrator) slowdown() float64 {
	return c.total / float64(c.spins) / c.fastest
}
