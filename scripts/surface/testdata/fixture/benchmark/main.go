// Command benchmark is the fixture's second module.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.OnlyBench()) }
