package proto

// RxChan is the receive half of one (endpoint, peer) eager channel,
// shared by the Open-MX driver and the MXoE firmware: the cumulative
// completion window plus a fragment bitmap for each message still
// assembling. A retransmitted fragment is a window duplicate once its
// message completed, a fragment duplicate while it assembles; either
// must not take a receive slot or raise a second event.
//
// A fragment is recorded only once the stack has accepted it, that
// is, found it a ring or queue slot: one dropped for lack of room
// stays unseen, so its retransmission is let through.
//
// Build one as RxChan{Window: NewWindow()}; the bitmaps are allocated
// on the first Accept.
type RxChan struct {
	Window
	assembling map[uint32]Reassembly
}

// FragSeen reports whether fragment frag of message seq was already
// accepted.
func (c *RxChan) FragSeen(seq uint32, frag int) bool {
	return c.assembling[seq].Got&(uint64(1)<<uint(frag)) != 0
}

// Accept records fragment frag of message seq, which has frags
// fragments, and reports whether every fragment is now accepted.
func (c *RxChan) Accept(seq uint32, frag, frags int) (complete bool) {
	if c.assembling == nil {
		c.assembling = make(map[uint32]Reassembly)
	}
	r, ok := c.assembling[seq]
	if !ok {
		r.Frags = frags
	}
	r.Mark(frag)
	c.assembling[seq] = r
	return r.Done()
}

// Complete records seq as fully received (Window.MarkComplete) and
// retires its fragment bitmap: IsDup covers the whole message from
// here on.
func (c *RxChan) Complete(seq uint32) {
	c.MarkComplete(seq)
	delete(c.assembling, seq)
}
