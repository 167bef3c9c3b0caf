//go:build go1.23 && !race

package sim

import "iter"

// newCoroutine returns the resume function of a coroutine that runs body
// on its first resume. body parks by calling yield, which switches straight
// back to the caller of resume; resume reports false once body has returned.
// body must not panic.
func newCoroutine(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool)) {
	resume, _ = iter.Pull(body)
	return resume
}
