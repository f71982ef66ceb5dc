package classify_test

import (
	"fmt"

	"repro/internal/classify"
)

// The call-chain classifiers distinguish component instances by creation
// context; the static-type classifier cannot (paper Figure 3).
func Example() {
	// A Paragraph created while laying out body text...
	bodyStack := []classify.Frame{
		{Instance: 7, Class: "PageFrame", InstClassification: "page@1", Function: "AddBody"},
		{Instance: 3, Class: "TextFlow", InstClassification: "flow@1", Function: "LayoutText"},
	}
	// ...versus one created inside a table cell.
	cellStack := []classify.Frame{
		{Instance: 9, Class: "TableCell", InstClassification: "cell@4", Function: "SetText"},
		{Instance: 5, Class: "TableModel", InstClassification: "tbl@1", Function: "Build"},
	}

	st := classify.New(classify.ST, 0)
	ifcb := classify.New(classify.IFCB, 0)

	fmt.Println("ST:  ", classify.Classify(st, "Paragraph", bodyStack) == classify.Classify(st, "Paragraph", cellStack))
	fmt.Println("IFCB:", classify.Classify(ifcb, "Paragraph", bodyStack) == classify.Classify(ifcb, "Paragraph", cellStack))
	fmt.Println(classify.Classify(ifcb, "Paragraph", bodyStack))
	// Output:
	// ST:   true
	// IFCB: false
	// [Paragraph, [page@1,AddBody], [flow@1,LayoutText]]
}

// Depth limits trade accuracy for overhead (paper Table 3).
func ExampleNew_depthLimited() {
	stack := []classify.Frame{
		{Instance: 1, Class: "Factory", InstClassification: "factory@1", Function: "CreateWidget"},
		{Instance: 2, Class: "Dialog", InstClassification: "dlg@3", Function: "Populate"},
	}
	shallow := classify.New(classify.IFCB, 1)
	deep := classify.New(classify.IFCB, 2)
	fmt.Println(classify.Classify(shallow, "Button", stack))
	fmt.Println(classify.Classify(deep, "Button", stack))
	// Output:
	// [Button, [factory@1,CreateWidget]]
	// [Button, [factory@1,CreateWidget], [dlg@3,Populate]]
}
