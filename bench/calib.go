package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// calibrator times a calibration pass: a fixed piece of work (sorting,
// map hashing and compressing) frozen here in the benchmark. The shared
// machines the benchmark runs on change speed with what other tenants do:
// on one 2-vCPU VM the median cold campaign of a 25 s run ranged from 91
// to 348 ms over four hours, in phases minutes long. Passes timed between
// the iterations of a run slow down with the host but not with the
// program, so the end-to-end times are reported in passes, next to the
// raw milliseconds.
//
// A pass allocates nothing once built, so its time does not depend on
// how much the program keeps on the heap or how often it collects.
type calibrator struct {
	ints, sorted []int
	keys, probes []string
	m            map[string]int
	text         []byte
	zw           *flate.Writer
	zout         bytes.Buffer
	hits         int // keeps the lookups live
	// ms holds the wall of every pass run.
	ms []float64
}

// calibShare sets how long a run calibrates: after each iteration,
// passes run until they add up to 1/calibShare of the iteration's time,
// and at least one runs. Some 200 passes in a 25 s run pin their median.
const calibShare = 20

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{
		ints:   make([]int, 20000),
		sorted: make([]int, 20000),
		keys:   make([]string, 4000),
		probes: make([]string, 8000),
		m:      make(map[string]int, 4000),
	}
	for i := range c.ints {
		c.ints[i] = r.Int()
	}
	for i := range c.keys {
		c.keys[i] = "fn" + strconv.Itoa(r.Intn(1<<30))
	}
	// Half the probes hit.
	for i := range c.probes {
		c.probes[i] = c.keys[r.Intn(len(c.keys))]
		if i%2 == 1 {
			c.probes[i] = "miss" + strconv.Itoa(i)
		}
	}
	words := []string{"strlen", "memcpy", "fputc", "asctime", "R_ARRAY_NULL", "errno", "EFAULT", "0x7f"}
	for len(c.text) < 32<<10 {
		c.text = append(c.text, words[r.Intn(len(words))]...)
		c.text = append(c.text, " \n\t"[r.Intn(3)])
	}
	c.zw, _ = flate.NewWriter(&c.zout, flate.DefaultCompression) // a valid level cannot fail
	c.zout.Grow(len(c.text))
	c.pass() // the first pass warms caches and grows the map
	return c
}

// pass runs the calibration work once and returns its wall.
func (c *calibrator) pass() time.Duration {
	start := time.Now()
	copy(c.sorted, c.ints)
	slices.Sort(c.sorted)
	clear(c.m)
	for i, k := range c.keys {
		c.m[k] = i
	}
	hits := 0
	for _, k := range c.probes {
		if _, ok := c.m[k]; ok {
			hits++
		}
	}
	c.zout.Reset()
	c.zw.Reset(&c.zout)
	c.zw.Write(c.text) //nolint:errcheck // writes to a bytes.Buffer cannot fail
	c.zw.Close()       //nolint:errcheck // as above
	c.hits = hits
	return time.Since(start)
}

// after runs the passes that follow an iteration that took iter.
func (c *calibrator) after(iter time.Duration) {
	var spent time.Duration
	for spent == 0 || spent < iter/calibShare {
		d := c.pass()
		spent += d
		c.ms = append(c.ms, ms(d))
	}
}
