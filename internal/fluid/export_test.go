package fluid

// SetStep overrides the integration step of a backend built by New, so
// one scenario can run at several steps. The batch scratch is resized to
// the new step.
func SetStep(b *Backend, dt float64) { b.setStep(dt) }
