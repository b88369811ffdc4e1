//go:build !race

package dram

const raceEnabled = false
