package core

// The driver's receive-side dedup state on top of the shared
// cumulative window (proto.Window): a per-message fragment bitmap
// that keeps retransmitted fragments of a message still assembling
// out of the ring. The transmit side is the shared proto.TxChan.

// markComplete records seq as fully received and advances the
// cumulative edge over any contiguous run it completes. The
// per-fragment bitmap retires with it: win.IsDup covers the whole
// message from here on.
func (c *rxChan) markComplete(seq uint32) {
	c.win.MarkComplete(seq)
	delete(c.fragSeen, seq)
}

// fragSeenBefore reports whether fragment fragID of message seq was
// already accepted — the driver-side duplicate check that keeps
// retransmitted fragments from consuming ring slots or queuing
// events the library might never drain.
func (c *rxChan) fragSeenBefore(seq uint32, fragID int) bool {
	return c.fragSeen[seq]&(uint64(1)<<uint(fragID)) != 0
}

// markFrag records fragment fragID of message seq as accepted. Only
// accepted fragments are recorded: a fragment dropped for lack of a
// ring slot must stay unseen so its retransmission is let through.
func (c *rxChan) markFrag(seq uint32, fragID int) {
	c.fragSeen[seq] |= uint64(1) << uint(fragID)
}
