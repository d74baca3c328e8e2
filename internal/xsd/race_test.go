//go:build race

package xsd_test

const raceEnabled = true
