//go:build !go1.23

package sim

// Procs run on coroutines made with iter.Pull (coro.go), which needs
// Go 1.23 or later. An older toolchain stops here, with this name as
// the first error.
type coro sim_needs_Go_1_23_or_later_for_iter_Pull
