// Command fixture is the caller in the unused-export gate's fixture
// module.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.New(2)
	fmt.Println(s.Area(), s)
}
