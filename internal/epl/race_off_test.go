//go:build !race

package epl

const raceEnabled = false
