//go:build race

package tensor

func init() { raceDetector = true }
