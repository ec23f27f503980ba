package fusion

// The references, for the tests in package fusion_test that run them over a
// pipeline's own statements (core imports this package, so those tests
// cannot live in it).
var (
	ReferenceBuildClaims        = referenceBuildClaims
	ReferenceDetectCorrelations = referenceDetectCorrelations
	ReferenceFuse               = referenceFuse
	DiffReference               = diffReference
	DiffCorrelations            = diffCorrelations
	BeliefsByKey                = beliefsByKey
	WithWorkers                 = withWorkers
)
