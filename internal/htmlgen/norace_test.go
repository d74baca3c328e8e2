//go:build !race

package htmlgen

const raceEnabled = false
