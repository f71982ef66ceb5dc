package binimg

// Exported to the external tests in codepage_test.go.
var (
	CodePageLen = len(codePage)
	Fill        = fill
)
