module mind

go 1.24
