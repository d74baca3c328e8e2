//go:build !race

package xsd_test

const raceEnabled = false
