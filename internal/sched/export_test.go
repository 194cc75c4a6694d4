package sched

// ReferenceBranchAndBound is the oracle for the external tests, which
// build p93791's instances through package assign, an importer of this
// package.
var ReferenceBranchAndBound = referenceBranchAndBound
