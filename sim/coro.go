//go:build go1.23

package sim

import "iter"

// coro is a pooled coroutine that runs proc bodies, made with
// iter.Pull. The caller of Run, RunUntil or Close is its only driver:
// it calls next to resume the coroutine, and the coroutine yields the
// proc the loop reached next (nil: no event is left at or before the
// bound, or a panic is waiting in Engine.caught).
type coro struct {
	p     *Proc                // the proc it runs; set when it is bound
	yield func(*Proc) bool     // hands the driver the next proc
	next  func() (*Proc, bool) // the driver's resume
	stop  func()               // unwinds it: a parked proc aborts, a free coroutine ends
}

// resume runs p on its coroutine until p's coroutine reaches another
// proc, and returns that proc. A proc's first resume binds it to a
// coroutine from the engine's free list, or to a new one, so a proc
// that never runs never costs one.
func (e *Engine) resume(p *Proc) *Proc {
	c := p.co
	if c == nil {
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			c = new(coro)
			c.next, c.stop = iter.Pull(c.loop)
		}
		c.p = p
		p.co = c
	}
	next, _ := c.next()
	return next
}

// loop is the coroutine's body. Each pass runs the bound proc, whose
// coroutine keeps the loop going once the body is over, then parks on
// the free list and yields the proc the loop reached; the driver binds
// the next fresh proc to it. A coroutine unwinding from Close ends
// instead, and so does a parked one that stop retires.
func (c *coro) loop(yield func(*Proc) bool) {
	c.yield = yield
	for {
		p := c.p
		next := p.run()
		c.p = nil
		if p.e.closing {
			return
		}
		p.e.idle = append(p.e.idle, c)
		if !yield(next) {
			return
		}
	}
}

// release ends the coroutines parked on the free list.
func (e *Engine) release() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}
