package lib

import "testing"

func TestDebug(t *testing.T) {
	if Run(Config{Limit: 2, Debug: true}) != -2 {
		t.Fatal("Debug ignored")
	}
}
