//go:build race

package xmldom

const raceEnabled = true
