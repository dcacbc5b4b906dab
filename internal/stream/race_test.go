//go:build race

package stream

func init() { raceDetector = true }
