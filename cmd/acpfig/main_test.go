package main

import "testing"

func TestRunSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	// 8a at minimal scale on a small IP graph is the cheapest figure.
	if err := run([]string{"-fig", "8a", "-scale", "0.01", "-ipnodes", "600", "-timing"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99x"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunInvalidFlags(t *testing.T) {
	if err := run([]string{"-scale", "nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunSeedAveraged(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	if err := run([]string{"-fig", "8a", "-scale", "0.01", "-ipnodes", "500", "-seeds", "2", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFairnessFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	if err := run([]string{"-fig", "fairness", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}
