// Package indice is a from-scratch Go reproduction of INDICE (INformative
// DynamiC dashboard Engine), the EPC visual-analytics framework of
// Cerquitelli et al., "Exploring energy performance certificates through
// visualization" (BigVis @ EDBT/ICDT 2019).
//
// The implementation lives under internal/: see internal/core for the
// public pipeline (Engine: Preprocess → Analyze → Dashboard),
// docs/architecture.md for the system inventory and docs/benchmarks.md
// for the per-experiment index and the measured record. The benchmarks in
// bench_test.go regenerate every evaluation artifact of the paper
// (E1..E8) plus the ablations that index marks.
package indice
