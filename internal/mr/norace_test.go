//go:build !race

package mr

const raceEnabled = false
