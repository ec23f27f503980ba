package fusion

// The oracles and the rules, for the tests in package fusion_test that run
// them over a pipeline's own statements (core imports this package, so
// those tests cannot live in it).
var (
	ReferenceBuildClaims        = referenceBuildClaims
	ReferenceDetectCorrelations = referenceDetectCorrelations
	DiffCorrelations            = diffCorrelations
	WithWorkers                 = withWorkers
	NastyForest                 = nastyForest
	NastyStatements             = nastyStatements
	SynthWorld                  = synthWorld
	RuleMethods                 = ruleMethods
	CheckRules                  = checkRules
	DiffResults                 = diffResults
)
