//go:build !race

package dse

const raceEnabled = false
