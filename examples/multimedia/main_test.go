package main

import "testing"

// TestExample runs the walkthrough: it exits the process on any failure.
func TestExample(t *testing.T) { main() }
