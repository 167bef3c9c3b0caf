//go:build race

package sim

// newCoroutine is the race-detector build of the process coroutine: a
// goroutine driven over two unbuffered channels, with the same contract as
// the iter.Pull version in coro.go. An iter.Pull coroutine that finishes
// never releases its race-detector state (the runtime's coroutine exit
// skips the goroutine-end hook, Go 1.24), so a race run that spawns
// hundreds of thousands of processes would grow by gigabytes; a goroutine
// that returns releases it. body must not panic.
func newCoroutine(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool)) {
	in, out := make(chan struct{}), make(chan struct{})
	done := false
	go func() {
		<-in
		body(func(struct{}) bool {
			out <- struct{}{}
			<-in
			return true
		})
		done = true
		out <- struct{}{}
	}()
	return func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		in <- struct{}{}
		<-out
		return struct{}{}, !done
	}
}
