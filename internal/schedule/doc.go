// Package schedule derives the test schedule implied by a fixed-TAM
// wrapper/TAM architecture (the paper's Section 1 motivation;
// ARCHITECTURE.md §1). Cores assigned to one TAM are tested serially —
// the test bus is a shared resource — while the TAMs themselves run in
// parallel; the SOC testing time is the finish time of the busiest TAM.
//
// The schedule is a pack.Schedule, the one schedule type every
// architecture shares (ARCHITECTURE.md §5, §8): the rectangle packing
// whose rectangles stay inside one horizontal wire band per TAM. Its
// PeakPower, BusyFraction and Gantt chart are pack's, so the two effects
// the paper uses to motivate multi-TAM architectures show in one chart:
// wires a core's wrapper leaves idle during its test, and TAMs that
// finish before the busiest one, both drawn as idle '.' cells.
package schedule
