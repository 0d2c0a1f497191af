package fluid

// SetStep overrides the integration step of a backend built by New, so
// one scenario can run at several steps.
func SetStep(b *Backend, dt float64) { b.step = dt }
