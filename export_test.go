package dmpstream

// SimTrace exposes a simulation's record to the external tests.
func SimTrace(r *SimResult) *Trace { return r.trace }
