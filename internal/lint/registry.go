package lint

// All returns every analyzer in the suite, in stable order. The vet-tool
// driver and the meta-test that pins the roster both consume this single
// registry — adding an analyzer here is the one required registration
// step.
func All() []*Analyzer {
	return []*Analyzer{
		LitSafe,
		HotPath,
		CtxFlow,
		EventExhaustive,
		LockOrder,
	}
}
