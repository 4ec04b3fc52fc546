package rtl

// OwnedInputs exposes the in-place decision Execute makes for a validated
// program, so the external tests can hold it to plan.Build's.
func OwnedInputs(p *Program) ([]bool, error) {
	impls, err := lookupImpls(p)
	if err != nil {
		return nil, err
	}
	return ownedInputs(p, impls), nil
}
