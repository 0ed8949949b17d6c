// Package channeldns is a from-scratch Go reproduction of "Petascale Direct
// Numerical Simulation of Turbulent Channel Flow on up to 786K Cores"
// (Lee, Malaya & Moser, SC'13): a Fourier/B-spline spectral channel-flow
// DNS with the paper's customized banded linear algebra, pencil-decomposed
// global transposes over CommA/CommB sub-communicators, a customized
// parallel FFT compared against a P3DFFT-style baseline, and calibrated
// machine models that regenerate the paper's scaling tables.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-reproduction results. cmd/bench -table NAME
// regenerates the paper's tables; benchmark/ (BENCHMARK.json) is the
// regression benchmark that gates a change.
package channeldns
