//go:build !race

package sims

const raceEnabled = false
