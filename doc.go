// Package repro is a from-scratch Go reproduction of "Self-Stabilizing
// Reconfiguration" (Dolev, Georgiou, Marcoullis, Schiller; MIDDLEWARE
// 2016 / arXiv:1606.00195): the first reconfiguration scheme for
// asynchronous message-passing systems that recovers automatically from
// transient faults, together with the dynamic services the paper builds on
// top of it — a bounded labeling scheme, a practically-infinite counter,
// virtually synchronous state machine replication, and an MWMR shared
// memory emulation.
//
// The implementation lives under internal/ (see README.md for the
// quickstart and DESIGN.md for the map); runnable demonstrations are
// under examples/, cmd/noded runs the stack as real networked processes
// over the transport subsystem (DESIGN.md §8), and cmd/benchtab
// regenerates the experiment tables recorded in EXPERIMENTS.md.
package repro
