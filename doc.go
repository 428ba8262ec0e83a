// Package mind is a from-scratch Go reproduction of "MIND: In-Network
// Memory Management for Disaggregated Data Centers" (SOSP 2021): a
// rack-scale disaggregated-memory system whose MMU — address translation,
// memory protection, and the cache-coherence directory — lives inside a
// programmable network switch.
//
// The paper's artifact is hardware-gated (Tofino switch ASIC, RDMA NICs,
// a modified Linux kernel), so this repository realizes the complete
// system over a deterministic discrete-event simulation of the rack and
// reproduces every figure of the paper's evaluation. See README.md for
// the architecture tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
//
// Every figure data point is an independent deterministic simulation
// run; internal/runner fans the runs of each panel across a worker pool
// and merges results in canonical order, so regeneration parallelizes
// across cores with bit-identical output.
//
// The root package holds no code.
package mind
