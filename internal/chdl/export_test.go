package chdl

// NewInterpMaxSteps is NewInterp under a step budget of the test's
// choosing: the golden fixture replays the budget it was recorded at,
// and the fuzz target keeps each call short.
var NewInterpMaxSteps = newInterp
