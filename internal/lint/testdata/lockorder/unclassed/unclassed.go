// Package unclassed marks a function //repro:requires-lock in a package
// that classes no mutex, so no held set can show its lock held.
package unclassed

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

//repro:requires-lock
func (c *counter) bumpLocked() { c.n++ } // want `//repro:requires-lock bumpLocked in a package with no //repro:lockclass mutex`

func (c *counter) bump() {
	c.mu.Lock()
	c.bumpLocked()
	c.mu.Unlock()
}
