module indice/bench

go 1.22

require indice v0.0.0

replace indice => ../
