//go:build race

package rl

func init() { raceDetector = true }
