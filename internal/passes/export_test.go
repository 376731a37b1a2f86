package passes

// Test helpers shared with the external test package, which exists
// because the zoo sweep compiles through internal/backend, an importer of
// this package.
var (
	RunLayout     = runLayout
	RelDiff       = relDiff
	IsGraphOutput = isGraphOutput
)
