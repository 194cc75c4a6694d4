package coopt

import (
	"reflect"
	"testing"

	"soctam/internal/socdata"
)

// pinnedEvent is the timing-free part of a ProgressEvent.
type pinnedEvent struct {
	kind       ProgressKind
	time       int64
	partitions int
}

// TestEnumeratingEnginesPinned pins the three engines that walk the
// partition space — the partition flow, the exhaustive baseline and the
// ILP branch and bound — at one worker: the whole Stats and every
// progress event (kind, time, partition count) must equal the figures
// recorded before the engines moved onto one shared scan, so a changed
// poll, tie-break, power check or prune count fails here even when the
// answer survives it.
func TestEnumeratingEnginesPinned(t *testing.T) {
	const (
		start    = ProgressBackendStart
		improved = ProgressImproved
		done     = ProgressBackendDone
	)
	for _, tc := range []struct {
		soc    string
		strat  Strategy
		width  int
		opt    Options
		want   Stats
		events []pinnedEvent
	}{
		{"d695", StrategyPartition, 24, Options{},
			Stats{Enumerated: 1204, Completed: 11, Aborted: 1193, Improved: 11},
			[]pinnedEvent{{start, 0, 0}, {improved, 45277, 1}, {improved, 37682, 6}, {improved, 35948, 7},
				{improved, 35509, 9}, {improved, 34028, 47}, {improved, 31715, 49}, {improved, 31232, 54},
				{improved, 30702, 57}, {improved, 30213, 60}, {improved, 30180, 61}, {improved, 30132, 305},
				{done, 30132, 0}}},
		{"d695", StrategyExhaustive, 12, Options{MaxTAMs: 6},
			Stats{Enumerated: 58, Completed: 58},
			[]pinnedEvent{{start, 0, 0}, {improved, 72664, 1}, {improved, 60551, 2}, {improved, 60065, 3},
				{improved, 58510, 4}, {improved, 56367, 5}, {done, 56367, 0}}},
		{"d695", StrategyILP, 24, Options{},
			Stats{Enumerated: 1204, Completed: 515, Aborted: 689},
			[]pinnedEvent{{start, 0, 0}, {improved, 45277, 1}, {improved, 37009, 2}, {improved, 32575, 3},
				{improved, 31363, 4}, {improved, 30448, 5}, {improved, 29514, 6}, {improved, 29030, 17},
				{improved, 28636, 18}, {improved, 28472, 28}, {done, 28472, 0}}},
		{"p21241", StrategyPartition, 24, Options{},
			Stats{Enumerated: 1204, Completed: 16, Aborted: 1188, Improved: 16},
			[]pinnedEvent{{start, 0, 0}, {improved, 1334779, 1}, {improved, 1262295, 4}, {improved, 1103533, 5},
				{improved, 1059461, 6}, {improved, 1012666, 7}, {improved, 963438, 8}, {improved, 947126, 36},
				{improved, 943985, 41}, {improved, 930016, 47}, {improved, 864576, 48}, {improved, 846801, 54},
				{improved, 843965, 58}, {improved, 821808, 147}, {improved, 818971, 161}, {improved, 816104, 165},
				{improved, 804212, 317}, {done, 802505, 0}}},
		{"p21241", StrategyExhaustive, 12, Options{MaxTAMs: 6},
			Stats{Enumerated: 58, Completed: 58},
			[]pinnedEvent{{start, 0, 0}, {improved, 1962134, 1}, {improved, 1776047, 2}, {improved, 1665873, 3},
				{improved, 1568397, 4}, {improved, 1561153, 9}, {improved, 1560423, 20}, {improved, 1560312, 26},
				{done, 1560312, 0}}},
		{"p21241", StrategyILP, 24, Options{},
			Stats{Enumerated: 1204, Completed: 134, Aborted: 1070},
			[]pinnedEvent{{start, 0, 0}, {improved, 1334779, 1}, {improved, 1221802, 2}, {improved, 1119068, 3},
				{improved, 1031794, 4}, {improved, 961963, 5}, {improved, 917345, 6}, {improved, 906751, 7},
				{improved, 872706, 18}, {improved, 865997, 22}, {improved, 859003, 27}, {improved, 837625, 28},
				{improved, 822733, 36}, {improved, 819162, 48}, {improved, 811765, 54}, {improved, 789429, 58},
				{improved, 783593, 100}, {improved, 781754, 224}, {done, 781754, 0}}},
		{"d695", StrategyPartition, 24, Options{MaxPower: 1800},
			Stats{Enumerated: 1204, Completed: 155, Aborted: 1049, Improved: 4, PowerInfeasible: 151},
			[]pinnedEvent{{start, 0, 0}, {improved, 45277, 1}, {improved, 37682, 6}, {improved, 35948, 7},
				{improved, 35509, 9}, {done, 35509, 0}}},
		{"d695", StrategyExhaustive, 12, Options{MaxTAMs: 6, MaxPower: 1800},
			Stats{Enumerated: 58, Completed: 58, PowerInfeasible: 12},
			[]pinnedEvent{{start, 0, 0}, {improved, 72664, 1}, {improved, 58081, 7}, {done, 58081, 0}}},
		{"d695", StrategyILP, 24, Options{MaxPower: 1800},
			Stats{Enumerated: 1204, Completed: 1063, Aborted: 141, PowerInfeasible: 428},
			[]pinnedEvent{{start, 0, 0}, {improved, 45277, 1}, {improved, 36345, 11}, {done, 36345, 0}}},
	} {
		s, err := socdata.ByName(tc.soc)
		if err != nil {
			t.Fatal(err)
		}
		var events []pinnedEvent
		opt := tc.opt
		opt.Strategy, opt.Workers = tc.strat, 1
		opt.Progress = func(ev ProgressEvent) {
			events = append(events, pinnedEvent{ev.Kind, int64(ev.Time), ev.Partitions})
		}
		res, err := Solve(s, tc.width, opt)
		if err != nil {
			t.Fatalf("%s %v W=%d P=%d: %v", tc.soc, tc.strat, tc.width, tc.opt.MaxPower, err)
		}
		if res.Stats != tc.want {
			t.Errorf("%s %v W=%d P=%d: stats %+v, want %+v", tc.soc, tc.strat, tc.width, tc.opt.MaxPower, res.Stats, tc.want)
		}
		if !reflect.DeepEqual(events, tc.events) {
			t.Errorf("%s %v W=%d P=%d: events\n%v\nwant\n%v", tc.soc, tc.strat, tc.width, tc.opt.MaxPower, events, tc.events)
		}
	}
}
