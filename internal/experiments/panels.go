package experiments

// Panel is one regenerable evaluation panel. Run returns its figures by
// sub-panel key; a panel drawn as a single figure returns it under "".
type Panel struct {
	ID  string
	Run func(Scale) (map[string]*Figure, error)
}

// Panels lists every panel, in the order cmd/figures prints them and
// under the ids its -fig flag takes. It is the one panel list: the
// figures command and the panel hash golden both range over it.
var Panels = []Panel{
	{"5l", Fig5Left},
	{"5c", Fig5Center},
	{"5r", Fig5Right},
	{"6", Fig6},
	{"7l", single(Fig7Left)},
	{"7c", single(Fig7Center)},
	{"7r", single(Fig7Right)},
	{"8l", Fig8Left},
	{"8c", single(Fig8Center)},
	{"8r", single(Fig8Right)},
	{"9l", Fig9Left},
	{"9r", Fig9Right},
	{"10", single(Fig10)},
	{"pod", single(FigPod)},
	{"serve", single(FigServe)},
	{"servepod", single(FigServePod)},
	{"servekill", single(FigServeKill)},
}

// single adapts a one-figure panel to Panel.Run.
func single(fig func(Scale) (*Figure, error)) func(Scale) (map[string]*Figure, error) {
	return func(s Scale) (map[string]*Figure, error) {
		f, err := fig(s)
		if err != nil {
			return nil, err
		}
		return map[string]*Figure{"": f}, nil
	}
}
