package fault

// CollapseOracle and UniverseOracle expose the reference collapse and
// universe to the external test package.
var (
	CollapseOracle = collapseOracle
	UniverseOracle = universeOracle
)
