//go:build !race

package hmc

const raceEnabled = false
