package sim

// Pending reports the number of queued events. Only tests read it: the
// order reference compares it with its own count after every call.
func (k *Kernel) Pending() int { return k.q.len() }
