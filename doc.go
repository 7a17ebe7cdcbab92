// Package plasma is a from-scratch Go reproduction of "PLASMA: Programmable
// Elasticity for Stateful Cloud Computing Applications" (EuroSys 2020): an
// elasticity programming language (EPL) compiled and evaluated over a
// profiling runtime, driving a two-level elasticity management runtime
// (LEMs/GEMs) that migrates actors and scales a cluster.
//
// The public entry point is internal/core (see examples/quickstart); the
// evaluation harness reproducing every table and figure of the paper lives
// in internal/experiments (run it with cmd/plasma-sim; cmd/plasma-bench times it).
package plasma
