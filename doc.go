// Package coign is a Go reproduction of "The Coign Automatic Distributed
// Partitioning System" (Galen C. Hunt and Michael L. Scott, OSDI 1999).
//
// Coign takes an application built from binary components, profiles its
// inter-component communication through usage scenarios, prices the
// resulting graph under a network profile, cuts it with an exact
// push-relabel minimum-cut algorithm, and rewrites the application binary
// so that the next execution runs distributed across client and server —
// all without source code.
//
// The repository layout follows the paper's toolchain:
//
//	internal/idl       interface metadata, deep-copy measurement, remotability
//	internal/com       the synthetic component object model
//	internal/binimg    application binary images and the binary rewriter
//	internal/rte       the Coign runtime executive (traps, shadow stack, call sizing)
//	internal/logger    the information logger: one trace, the profile a fold over it
//	internal/classify  the seven instance classifiers
//	internal/profile   ICC profiles, size buckets, communication vectors
//	internal/netsim    network models and the network profiler
//	internal/graph     push-relabel min-cut, Edmonds-Karp oracle
//	internal/analysis  the profile analysis engine and constraint inference
//	internal/dist      the two-machine execution engine, component factory, virtual clock, replayer
//	internal/core      the end-to-end ADPS pipeline
//	internal/apps/...  reconstructions of Octarine, PhotoDraw, and Benefits
//	internal/scenario  the 23-scenario profiling suite of Table 1
//	internal/experiments  regeneration of every table and figure in §4
//
// The benchmarks in this package regenerate the paper's evaluation; see
// EXPERIMENTS.md for paper-versus-measured numbers.
package coign
